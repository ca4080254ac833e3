"""Helpers shared by the tests of the window kernel and its callers."""

import dataclasses

import numpy as np

from eulerfan import FanSubsolution, eps2_window
from eulerfan.subsolution import middle_nodes, window_grid


def window_row(data, nodes):
    """window_grid of one datum on the middle densities `nodes`, with
    their node stage built by middle_nodes; raises the datum's error."""
    return window_grid(data, middle_nodes(data, nodes))


def unchecked_subsolution(data, rho_1, eps_2, alpha):
    """The subsolution of reconstruct at (rho_1, eps_2, alpha) without its
    slack and energy checks, built from the defining identities of
    FanSubsolution: C from eps_2, gamma_1 from eps_1 and gamma_2 =
    alpha*beta.  It lets a test feed the verifier invalid subsolutions."""
    w = eps2_window(data, rho_1)
    beta, eps_1 = w.beta, w.eps_1
    C = alpha ** 2 + beta ** 2 + eps_1 + eps_2
    return FanSubsolution(
        nu_minus=w.nu_minus, nu_plus=w.nu_plus, rho_1=float(rho_1), alpha=float(alpha),
        beta=beta, gamma_1=C / 2.0 - beta ** 2 - eps_1, gamma_2=float(alpha) * beta,
        C=C, eps_1=eps_1, eps_2=float(eps_2))


def _plain(x):
    return x.view(np.ndarray) if isinstance(x, NumpyCallCounter) else x


class NumpyCallCounter(np.ndarray):
    """An ndarray that counts the numpy calls it takes part in, in the
    class attribute calls: every ufunc call, reductions included, and
    every array function.  Their array results are counters again, so a
    kernel call on counted node terms counts each numpy call it makes
    once."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        NumpyCallCounter.calls += 1
        out = kwargs.get("out")
        if out is not None:
            kwargs["out"] = tuple(map(_plain, out))
        if "where" in kwargs:
            kwargs["where"] = _plain(kwargs["where"])
        result = getattr(ufunc, method)(*map(_plain, inputs), **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(NumpyCallCounter) if isinstance(result, np.ndarray) else result

    def __array_function__(self, func, types, args, kwargs):
        NumpyCallCounter.calls += 1
        result = super().__array_function__(func, types, args, kwargs)
        return result.view(NumpyCallCounter) if isinstance(result, np.ndarray) else result


def counted_nodes(nodes):
    """nodes with every array a NumpyCallCounter view of its own."""
    return dataclasses.replace(nodes, **{
        field.name: getattr(nodes, field.name).view(NumpyCallCounter)
        for field in dataclasses.fields(nodes)
        if isinstance(getattr(nodes, field.name), np.ndarray)})
