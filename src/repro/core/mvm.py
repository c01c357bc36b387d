"""Single-spike matrix-vector multiplication (paper Eqs. 5–6).

Composes the global decoder, the crossbar column Thevenin reduction and
the column output generators into one vectorised operator:

    t_out,j = (Δt / C_cog) Σ_i t_in,i G_ij          (LINEAR mode, Eq. 6)

    t_out,j = -τ_gd ln(1 - V_out,j / V_s)            (EXACT mode)
      with V_out,j = V_eq,j (1 - e^{-Δt Σ_i G_ij / C_cog})
      and  V_eq,j  = Σ_i V_s (1 - e^{-t_in,i/τ_gd}) G_ij / Σ_i G_ij

EXACT mode carries the two non-linearities analysed in Section III-D
(ramp curvature and column saturation); LINEAR mode is the idealised
algebra.  Batched evaluation over many input vectors — and over a
``(T, rows, cols)`` stack of Monte-Carlo conductance draws — is a single
broadcast numpy expression.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from ..config import CircuitParameters
from ..errors import ConfigurationError, ShapeError
from ..kernels import get_backend
from ..reram.crossbar import CrossbarArray, StackedCrossbar
from ..telemetry import session as _telemetry
from .cog import COGResult, ColumnOutputGenerator
from .global_decoder import GlobalDecoder

__all__ = ["MVMMode", "SingleSpikeMVM"]


class MVMMode(enum.Enum):
    """Fidelity of the single-spike MVM evaluation."""

    EXACT = "exact"
    LINEAR = "linear"


class SingleSpikeMVM:
    """The timing-domain MVM operator of one ReSiPE crossbar.

    Parameters
    ----------
    array:
        The programmed crossbar.
    params:
        Circuit operating point; its ``rows/cols`` need not match the
        array (the array's own shape governs).
    mode:
        :class:`MVMMode.EXACT` (default) or :class:`MVMMode.LINEAR`.
    decoder / cog:
        Optional pre-built front/back ends (e.g. carrying S/H or
        comparator error models); by default ideal exact stages are
        constructed from ``params``.
    parasitic_thevenin:
        Optional precomputed wire-parasitic column equivalents
        (:meth:`repro.reram.nonideal.IRDropSolver.column_thevenin`).
        When given, EXACT mode charges each column from the
        IR-drop-degraded Thevenin source instead of the ideal one.
    """

    def __init__(
        self,
        array: CrossbarArray,
        params: CircuitParameters,
        mode: MVMMode = MVMMode.EXACT,
        decoder: Optional[GlobalDecoder] = None,
        cog: Optional[ColumnOutputGenerator] = None,
        parasitic_thevenin=None,
    ) -> None:
        self.array = array
        self.params = params
        self.mode = mode
        exact = mode is MVMMode.EXACT
        self.decoder = decoder if decoder is not None else GlobalDecoder(params, exact=exact)
        self.cog = cog if cog is not None else ColumnOutputGenerator(params, exact=exact)
        self.parasitic_thevenin = parasitic_thevenin

    # ------------------------------------------------------------------
    def output_times(self, input_times: np.ndarray) -> np.ndarray:
        """Output spike times for input spike times.

        ``input_times`` is ``(rows,)`` or ``(batch, rows)`` with ``nan``
        marking absent spikes; the result is ``(cols,)`` or
        ``(batch, cols)``, clamped to the slice for saturated columns.
        """
        return self.evaluate(input_times).times

    def evaluate(self, input_times: np.ndarray, backend=None) -> COGResult:
        """Full evaluation returning times, fired mask and held voltages.

        The operator's array is a :class:`CrossbarArray` or a
        ``(T, rows, cols)`` :class:`StackedCrossbar` of Monte-Carlo
        realizations.  Against a stack, ``input_times`` may also be
        per-trial ``(T, batch, rows)`` and every result array gains a
        leading trial axis; slice ``t`` is bit-identical to evaluating
        realization ``t`` alone.  ``backend`` is the
        :class:`~repro.kernels.ComputeBackend` running the crossbar
        product (default numpy) and never changes results.
        """
        array = self.array
        t_in = np.asarray(input_times, dtype=float)
        squeeze = t_in.ndim == 1
        if squeeze:
            t_in = t_in[None, :]
        if t_in.shape[-1] != array.rows:
            raise ShapeError(
                f"input vector length {t_in.shape[-1]} != crossbar rows "
                f"{array.rows}"
            )
        trials = array.trials if isinstance(array, StackedCrossbar) else None
        if t_in.ndim == 3 and t_in.shape[0] != trials:
            raise ShapeError(
                f"per-trial inputs carry {t_in.shape[0]} trials, "
                f"array holds {trials or 1}"
            )
        if self.parasitic_thevenin is not None and trials is not None:
            raise ConfigurationError(
                "parasitic_thevenin is per-realization state; a trial "
                "stack only supports the ideal column model"
            )
        if backend is None:
            backend = get_backend()

        if self.mode is MVMMode.LINEAR:
            result = self._evaluate_linear(t_in, backend)
        else:
            result = self._evaluate_exact(t_in, backend)

        session = _telemetry.active()
        if session is not None:
            products = result.times.size // array.cols
            session.count("mvm.count", products)
            session.count("mvm.elements", products * array.rows * array.cols)

        if squeeze:
            return COGResult(
                times=result.times[..., 0, :],
                fired=result.fired[..., 0, :],
                v_out=result.v_out[..., 0, :],
            )
        return result

    def evaluate_stacked(
        self, input_times: np.ndarray, stacked: StackedCrossbar,
        backend=None,
    ) -> COGResult:
        """:meth:`evaluate` against the trial stack ``stacked``."""
        return SingleSpikeMVM(
            stacked, self.params, mode=self.mode, decoder=self.decoder,
            cog=self.cog, parasitic_thevenin=self.parasitic_thevenin,
        ).evaluate(input_times, get_backend(backend))

    def _evaluate_exact(self, t_in: np.ndarray, backend) -> COGResult:
        p = self.params
        array = self.array
        v_in = np.asarray(self.decoder.voltages_from_times(t_in), dtype=float)
        if self.parasitic_thevenin is not None:
            v_eq = self.parasitic_thevenin.v_eq(v_in)  # (batch, cols)
            depth = p.dt / (self.parasitic_thevenin.r_eq * p.c_cog)
        else:
            total_g = array.column_total_conductance()  # (..., cols)
            v_eq = (
                backend.matmul(v_in, array.conductances)
                / total_g[..., None, :]
            )  # (..., batch, cols)
            depth = p.dt * total_g / p.c_cog  # (..., cols)
        v_out = v_eq * (1.0 - np.exp(-depth))[..., None, :]

        batch_result = self.cog.times_from_voltages(v_out.ravel())
        shape = v_out.shape
        return COGResult(
            times=batch_result.times.reshape(shape),
            fired=batch_result.fired.reshape(shape),
            v_out=batch_result.v_out.reshape(shape),
        )

    def _evaluate_linear(self, t_in: np.ndarray, backend) -> COGResult:
        p = self.params
        g = self.array.conductances
        safe_t = np.where(np.isnan(t_in), 0.0, t_in)
        times = p.mac_gain * backend.matmul(safe_t, g)  # Eq. 6
        fired = times <= p.slice_length
        clamped = np.where(fired, times, p.slice_length)
        # Back out the voltage a COG would have held (linear Eq. 4).
        v_out = times * p.v_s / p.tau_gd
        return COGResult(times=clamped, fired=fired, v_out=v_out)

    # ------------------------------------------------------------------
    def linear_full_scale_time(self, t_in_max: float) -> float:
        """Worst-case linear output time: every input at ``t_in_max`` into
        the all-LRS column.  Useful for choosing output normalisation."""
        g_col_max = float(self.array.column_total_conductance().max())
        return self.params.mac_gain * t_in_max * g_col_max

    def saturation_mask(self) -> np.ndarray:
        """Columns operating beyond the paper's linear bound (Σ G >
        ``g_column_linear_limit``)."""
        return self.array.exceeds_linear_limit(self.params.g_column_linear_limit)
