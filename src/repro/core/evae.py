"""The extended variational auto-encoder (paper Sec. 3.3.3, Eq. 6–8).

Maps a node's *attribute* embedding to a reconstruction in *preference* space:

* inference  : ``q_φ(z|x) = N(μ_φ(x), diag(σ_φ(x)²))``
* generation : ``x' ~ p_θ(x'|z)`` with the reparameterisation trick
* approximation (the extension): constrain ``x'`` to lie near the trained
  preference embedding ``m_u`` via ``‖x' − m_u‖₂``.

At test time a strict cold start node has no ``m_u``; the trained eVAE
generates it deterministically as ``decode(μ_φ(x))``.

Sign convention: Eq. 8 prints the ELBO terms with their maximisation signs;
what is *minimised* (via Eq. 15) is ``KL − E[log p] + ‖x' − m‖₂``, which is
what :meth:`ExtendedVAE.loss` returns.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..autograd import Tensor, ops
from ..nn import Linear, Module
from ..nn.functional import gaussian_kl, gaussian_nll, l2_distance
from ..telemetry import events, span

__all__ = ["ExtendedVAE"]


class ExtendedVAE(Module):
    """eVAE: attribute embedding → (reconstruction, μ, log σ²)."""

    #: weight of the approximation term's pull on the preference embedding
    #: (the reverse direction, reconstruction → m).  Small by design: at λ=1
    #: it gently regularises m toward attribute-predictability; at λ=10 the
    #: 10× pull visibly drags the rating task (the Fig. 6 right branch).
    approx_coupling: float = 0.5

    def __init__(
        self,
        embedding_dim: int,
        hidden_dim: int,
        latent_dim: int,
        leaky_slope: float = 0.01,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        self.embedding_dim = embedding_dim
        self.latent_dim = latent_dim
        self.leaky_slope = leaky_slope
        self.encoder = Linear(embedding_dim, hidden_dim)
        self.mu_head = Linear(hidden_dim, latent_dim)
        self.logvar_head = Linear(hidden_dim, latent_dim)
        self.decoder_hidden = Linear(latent_dim, hidden_dim)
        self.decoder_out = Linear(hidden_dim, embedding_dim)
        self._rng = rng or np.random.default_rng(0)

    # ------------------------------------------------------------------ pieces
    def encode(self, x: Tensor) -> Tuple[Tensor, Tensor]:
        """Inference network: returns (μ, log σ²)."""
        h = ops.leaky_relu(self.encoder(x), self.leaky_slope)
        mu = self.mu_head(h)
        # Clip log-variance for numerical safety early in training.
        log_var = ops.clip(self.logvar_head(h), -8.0, 8.0)
        return mu, log_var

    def decode(self, z: Tensor) -> Tensor:
        """Generation network p_θ(x'|z)."""
        h = ops.leaky_relu(self.decoder_hidden(z), self.leaky_slope)
        return self.decoder_out(h)

    def reparameterise(self, mu: Tensor, log_var: Tensor) -> Tensor:
        """z = μ + ε ⊙ σ with ε ~ N(0, I) — gradients flow through μ, σ."""
        eps = Tensor(self._rng.normal(size=mu.shape))
        sigma = ops.exp(ops.mul(log_var, 0.5))
        return ops.add(mu, ops.mul(eps, sigma))

    def forward(self, x: Tensor, sample: bool = True) -> Tuple[Tensor, Tensor, Tensor]:
        """Return (x', μ, log σ²); ``sample=False`` uses z = μ (inference)."""
        mu, log_var = self.encode(x)
        z = self.reparameterise(mu, log_var) if sample else mu
        return self.decode(z), mu, log_var

    # ------------------------------------------------------------------ losses
    def loss(
        self,
        x: Tensor,
        preference_target: Optional[Tensor] = None,
        use_approximation: bool = True,
    ) -> Tuple[Tensor, Tensor]:
        """eVAE reconstruction loss (Eq. 8, minimisation form) for a batch.

        Returns ``(loss, x')``.

        With the approximation part (the full eVAE), the generation target is
        the *preference* embedding: the decoder learns the attribute →
        preference mapping (z carries the attribute distribution through the
        inference network and the KL), and the explicit ``‖x' − m‖₂``
        constraint pins the reconstruction to the trained embedding.

        With ``use_approximation=False`` (the AGNN_VAE ablation) this degrades
        to the standard VAE, which reconstructs its *input* — the attribute
        embedding.  That variant never learns the attribute→preference
        mapping, which is precisely why the paper finds it much weaker.

        The quadratic generation target is detached — its unbounded gradient
        would collapse the rating-supervised preference table toward the
        (initially zero) reconstruction early in training.  The paper's joint
        coupling of Eq. 15 is kept through the approximation norm, split into
        its two directions:

            ‖x' − m̄‖            (trains the generator toward m)
          + γ·‖x̄' − m‖          (gently regularises m toward x')

        with γ = ``approx_coupling`` ≪ 1, so a moderate λ nudges preference
        embeddings toward attribute-predictability while λ = 10 measurably
        degrades the rating task — the Fig. 6 U-shape.
        """
        with span("evae.loss"):
            return self._loss(x, preference_target, use_approximation)

    def _loss(
        self,
        x: Tensor,
        preference_target: Optional[Tensor],
        use_approximation: bool,
    ) -> Tuple[Tensor, Tensor]:
        x_recon, mu, log_var = self.forward(x, sample=self.training)
        kl = gaussian_kl(mu, log_var)
        if use_approximation:
            if preference_target is None:
                raise ValueError("approximation term needs the preference embeddings")
            target = preference_target.detach()
            nll = gaussian_nll(target, x_recon)
            approx = ops.mean(l2_distance(x_recon, target))
            reverse = ops.mean(l2_distance(x_recon.detach(), preference_target))
            total = ops.add(ops.add(kl, nll), ops.add(approx, ops.mul(reverse, self.approx_coupling)))
        else:
            nll = gaussian_nll(x.detach(), x_recon)
            total = ops.add(kl, nll)
        return total, x_recon

    def generate(self, x: Tensor) -> Tensor:
        """Deterministic preference embedding for cold nodes: decode(μ_φ(x))."""
        with span("evae.generate"):
            recon, _, _ = self.forward(x, sample=False)
            events.emit("evae.generate", rows=int(recon.data.shape[0]), latent_dim=self.latent_dim)
            return recon
