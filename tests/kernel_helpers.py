"""Helpers shared by the tests of the window kernel and its callers."""

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
