"""Program autoencoders for the encoder-architecture ablation (Fig. 11, Table 7).

The paper validates its choice of a Transformer state encoder by training a
Transformer autoencoder and a GRU autoencoder on random IR expressions and
comparing reconstruction accuracy.  This module implements both with a
shared, simple decoding scheme: the encoder produces a fixed-length latent
vector; the decoder predicts the token at every position from the latent
vector concatenated with that position's sinusoidal encoding.  Both models
therefore differ *only* in their encoder, which is exactly the variable the
ablation isolates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.ir.nodes import Expr
from repro.ir.tokenize import ICITokenizer
from repro.nn.layers import MLP, Embedding, Module
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import TransformerEncoder, positional_encoding
from repro.nn.gru import GRU

__all__ = [
    "AutoencoderConfig",
    "ProgramAutoencoder",
    "TransformerAutoencoder",
    "GRUAutoencoder",
    "train_autoencoder",
    "reconstruction_accuracy",
]


@dataclass
class AutoencoderConfig:
    """Shared configuration of both autoencoders."""

    vocab_size: int = 128
    model_dim: int = 64
    latent_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    max_tokens: int = 64
    seed: Optional[int] = 0


class ProgramAutoencoder(Module):
    """Base class: latent encoding + per-position token decoder."""

    def __init__(self, config: AutoencoderConfig) -> None:
        super().__init__()
        self.config = config
        self._positional = positional_encoding(config.max_tokens, config.model_dim)
        self.decoder = MLP(
            config.latent_dim + config.model_dim,
            [config.model_dim],
            config.vocab_size,
            seed=config.seed,
        )

    # -- to be provided by subclasses ------------------------------------------------
    def encode_latent(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        raise NotImplementedError

    # -- shared decode / loss ----------------------------------------------------------
    def logits(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        """Per-position vocabulary logits of shape (batch, length, vocab)."""
        token_ids = np.atleast_2d(token_ids)
        padding_mask = np.atleast_2d(padding_mask)
        batch, length = token_ids.shape
        latent = self.encode_latent(token_ids, padding_mask)  # (batch, latent)
        positions = Tensor(self._positional[:length])  # (length, model_dim)
        latent_tiled = latent.reshape(batch, 1, self.config.latent_dim) * Tensor(
            np.ones((1, length, 1))
        )
        positions_tiled = positions.reshape(1, length, self.config.model_dim) * Tensor(
            np.ones((batch, 1, 1))
        )
        decoder_input = Tensor.concatenate([latent_tiled, positions_tiled], axis=-1)
        return self.decoder(decoder_input)

    def loss(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        """Masked cross-entropy reconstruction loss."""
        token_ids = np.atleast_2d(token_ids)
        padding_mask = np.atleast_2d(padding_mask).astype(np.float64)
        logits = self.logits(token_ids, padding_mask)
        log_probs = logits.log_softmax(axis=-1)
        batch, length = token_ids.shape
        batch_index = np.repeat(np.arange(batch), length)
        position_index = np.tile(np.arange(length), batch)
        target_index = token_ids.reshape(-1)
        selected = log_probs[batch_index, position_index, target_index]
        mask = Tensor(padding_mask.reshape(-1))
        total = (selected * mask).sum() * (-1.0 / max(1.0, float(padding_mask.sum())))
        return total

    @no_grad()
    def reconstruct(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> np.ndarray:
        """Greedy reconstruction (argmax per position)."""
        logits = self.logits(token_ids, padding_mask)
        return np.argmax(logits.numpy(), axis=-1)


class TransformerAutoencoder(ProgramAutoencoder):
    """Autoencoder whose encoder is the Transformer of the RL state model."""

    def __init__(self, config: Optional[AutoencoderConfig] = None) -> None:
        config = config if config is not None else AutoencoderConfig()
        super().__init__(config)
        self.encoder = TransformerEncoder(
            vocab_size=config.vocab_size,
            model_dim=config.model_dim,
            num_layers=config.num_layers,
            num_heads=config.num_heads,
            max_length=config.max_tokens,
            seed=config.seed,
        )
        self.to_latent = MLP(config.model_dim, [], config.latent_dim, seed=config.seed)

    def encode_latent(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        pooled = self.encoder.encode(token_ids, padding_mask)
        return self.to_latent(pooled)


class GRUAutoencoder(ProgramAutoencoder):
    """Autoencoder whose encoder is a bidirectional GRU."""

    def __init__(self, config: Optional[AutoencoderConfig] = None) -> None:
        config = config if config is not None else AutoencoderConfig()
        super().__init__(config)
        self.embedding = Embedding(config.vocab_size, config.model_dim, seed=config.seed)
        self.encoder = GRU(
            config.model_dim,
            config.model_dim // 2,
            num_layers=config.num_layers,
            bidirectional=True,
            seed=config.seed,
        )
        self.to_latent = MLP(config.model_dim, [], config.latent_dim, seed=config.seed)

    def encode_latent(self, token_ids: np.ndarray, padding_mask: np.ndarray) -> Tensor:
        token_ids = np.atleast_2d(token_ids)
        embedded = self.embedding(token_ids)
        summary = self.encoder.encode(embedded)
        return self.to_latent(summary)


def _encode_dataset(
    expressions: Sequence[Expr], tokenizer: ICITokenizer
) -> Tuple[np.ndarray, np.ndarray]:
    token_ids = np.stack([np.asarray(tokenizer.encode(expr)) for expr in expressions])
    padding = np.stack(
        [np.asarray(tokenizer.attention_mask(row)) for row in token_ids]
    )
    return token_ids, padding


def train_autoencoder(
    model: ProgramAutoencoder,
    expressions: Sequence[Expr],
    tokenizer: Optional[ICITokenizer] = None,
    epochs: int = 20,
    batch_size: int = 16,
    learning_rate: float = 1e-3,
    seed: Optional[int] = 0,
) -> Dict[str, List[float]]:
    """Train ``model`` to reconstruct ``expressions``; returns the loss curve."""
    tokenizer = tokenizer or ICITokenizer(max_length=model.config.max_tokens)
    token_ids, padding = _encode_dataset(expressions, tokenizer)
    optimizer = Adam(model.parameters(), learning_rate=learning_rate)
    rng = np.random.default_rng(seed)
    history: Dict[str, List[float]] = {"loss": [], "token_accuracy": []}
    for _ in range(epochs):
        order = rng.permutation(len(expressions))
        losses: List[float] = []
        for start in range(0, len(order), batch_size):
            batch = order[start : start + batch_size]
            loss = model.loss(token_ids[batch], padding[batch])
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        history["loss"].append(float(np.mean(losses)))
        accuracy = reconstruction_accuracy(model, token_ids, padding)
        history["token_accuracy"].append(accuracy["token_accuracy"])
    return history


def reconstruction_accuracy(
    model: ProgramAutoencoder, token_ids: np.ndarray, padding: np.ndarray
) -> Dict[str, float]:
    """Exact-match and per-token reconstruction accuracy (Table 7 metrics)."""
    predictions = model.reconstruct(token_ids, padding)
    mask = padding.astype(bool)
    token_correct = (predictions == token_ids) & mask
    token_accuracy = float(token_correct.sum()) / max(1, int(mask.sum()))
    exact = 0
    for row in range(token_ids.shape[0]):
        row_mask = mask[row]
        if np.array_equal(predictions[row][row_mask], token_ids[row][row_mask]):
            exact += 1
    exact_accuracy = exact / max(1, token_ids.shape[0])
    return {"token_accuracy": token_accuracy, "exact_match": exact_accuracy}
