#include "fl/codec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/error.hpp"
#include "fl/serialize.hpp"
#include "fl/wire_detail.hpp"

namespace evfl::fl {

namespace {

using wire_detail::Header;
using wire_detail::Writer;

// Block quantization itself (per-block scale + codes) is shared with the
// serving engine's weight freezing — nn::block_quantize / nn::dequantize in
// nn/quant.hpp.  Only the wire packing lives here.

/// Append scales + packed codes (two-per-byte, low nibble first, for 4-bit).
void write_quantized(Writer& w, const std::vector<float>& scales,
                     const std::vector<std::int8_t>& quants, int bits) {
  w.put_floats(scales.data(), scales.size());
  if (bits == 8) {
    w.put_bytes(reinterpret_cast<const std::uint8_t*>(quants.data()),
                quants.size());
    return;
  }
  for (std::size_t i = 0; i < quants.size(); i += 2) {
    const std::uint8_t lo = static_cast<std::uint8_t>(quants[i]) & 0xFu;
    const std::uint8_t hi =
        i + 1 < quants.size()
            ? static_cast<std::uint8_t>(static_cast<std::uint8_t>(quants[i + 1])
                                        << 4)
            : 0u;
    w.put(static_cast<std::uint8_t>(hi | lo));
  }
}

}  // namespace

std::string to_string(CodecKind kind) {
  switch (kind) {
    case CodecKind::kDense: return "dense";
    case CodecKind::kDelta: return "delta";
    case CodecKind::kTopK: return "topk";
    case CodecKind::kTopKQuant: return "topk_q";
    case CodecKind::kQuantDense: return "quant_dense";
    case CodecKind::kAggSum: return "agg_sum";
  }
  return "unknown";
}

CodecKind parse_codec_kind(const std::string& name) {
  if (name == "dense") return CodecKind::kDense;
  if (name == "delta") return CodecKind::kDelta;
  if (name == "topk") return CodecKind::kTopK;
  if (name == "topk_q") return CodecKind::kTopKQuant;
  throw Error("unknown codec '" + name +
              "' (expected dense|delta|topk|topk_q)");
}

bool broadcast_is_lossy(const CodecConfig& cfg) {
  return cfg.kind == CodecKind::kTopKQuant;
}

UpdateEncoder::UpdateEncoder(CodecConfig cfg) : cfg_(cfg) {
  if (cfg_.kind == CodecKind::kQuantDense) {
    throw Error("kQuantDense is a broadcast-leg codec, not an update codec");
  }
  if (cfg_.quant_bits != 4 && cfg_.quant_bits != 8) {
    throw Error("quant_bits must be 4 or 8, got " +
                std::to_string(cfg_.quant_bits));
  }
  if (!(cfg_.topk_frac > 0.0) || cfg_.topk_frac > 1.0) {
    throw Error("topk_frac must be in (0, 1]");
  }
}

void UpdateEncoder::reset() { residual_.clear(); }

void UpdateEncoder::encode(const WeightUpdate& update,
                           const std::vector<float>& reference,
                           std::vector<std::uint8_t>& out) {
  if (cfg_.kind == CodecKind::kDense) {
    serialize_into(update, out);
    return;
  }
  const std::size_t dim = update.weights.size();
  EVFL_ASSERT(reference.size() == dim,
              "encode: reference/update dimension mismatch");

  // Error-feedback delta: what we'd like the server to apply, including
  // everything past rounds failed to ship.
  delta_.resize(dim);
  const bool lossy =
      cfg_.kind == CodecKind::kTopK || cfg_.kind == CodecKind::kTopKQuant;
  if (lossy && residual_.size() != dim) {
    residual_.assign(dim, 0.0f);  // first round, or model was re-seeded
  }
  bool finite = true;
  for (std::size_t i = 0; i < dim; ++i) {
    float d = update.weights[i] - reference[i];
    if (lossy) d += residual_[i];
    delta_[i] = d;
    finite = finite && std::isfinite(d);
  }

  // Header fields shared by every payload below; codec, quant_bits and nnz
  // are per branch.
  Header h{MessageKind::kWeightUpdate, update.round, update.client_id,
           update.sample_count, update.train_loss, CodecKind::kDelta,
           /*quant_bits=*/0,
           wire_detail::saturate_leaves(update.agg_contributors), dim, dim};

  // A non-finite delta cannot be ranked by magnitude (NaN breaks the
  // selection ordering) and must reach the validator untouched, so it ships
  // dense regardless of the configured codec.  Residual is left as-is: the
  // update will be rejected server-side and this client's state should not
  // absorb its garbage.
  if (cfg_.kind == CodecKind::kDelta || !finite) {
    wire_detail::write_float_message(out, h, delta_.data());
    return;
  }

  // Top-k selection by |delta|, ties broken by index for determinism.
  const std::size_t k = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(cfg_.topk_frac * static_cast<double>(dim))),
      dim > 0 ? 1 : 0, dim);
  index_.resize(dim);
  std::iota(index_.begin(), index_.end(), 0u);
  if (k < dim) {
    std::nth_element(index_.begin(), index_.begin() + k, index_.end(),
                     [this](std::uint32_t a, std::uint32_t b) {
                       const float fa = std::fabs(delta_[a]);
                       const float fb = std::fabs(delta_[b]);
                       return fa != fb ? fa > fb : a < b;
                     });
  }
  std::sort(index_.begin(), index_.begin() + k);  // wire order is ascending
  gathered_.resize(k);
  for (std::size_t j = 0; j < k; ++j) gathered_[j] = delta_[index_[j]];

  const bool quantized = cfg_.kind == CodecKind::kTopKQuant;
  const int bits = quantized ? cfg_.quant_bits : 0;
  h.codec = cfg_.kind;
  h.quant_bits = bits;
  h.nnz = k;
  wire_detail::write_header(out, h);
  Writer w(out);
  w.put_bytes(reinterpret_cast<const std::uint8_t*>(index_.data()),
              k * sizeof(std::uint32_t));
  if (quantized) {
    nn::block_quantize(gathered_.data(), k, bits, scales_, quants_);
    write_quantized(w, scales_, quants_, bits);
  } else {
    w.put_floats(gathered_.data(), k);
  }
  wire_detail::seal_message(out);

  // Residual: everything the wire did not carry.  Unselected coordinates
  // keep their full delta; selected ones keep only the quantization error
  // (zero for kTopK).
  std::swap(residual_, delta_);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t i = index_[j];
    residual_[i] =
        quantized
            ? gathered_[j] - nn::dequantize(quants_[j], scales_[j / kQuantBlock])
            : 0.0f;
  }
}

void encode_global(std::uint32_t round, const std::vector<float>& weights,
                   const CodecConfig& cfg, std::vector<std::uint8_t>& out) {
  const std::size_t dim = weights.size();
  Header h{MessageKind::kGlobalModel, round, /*client=*/-1, /*samples=*/0,
           /*loss=*/0.0f, CodecKind::kDense, /*quant_bits=*/0,
           /*agg_leaves=*/0, dim, dim};
  if (!broadcast_is_lossy(cfg)) {
    wire_detail::write_float_message(out, h, weights.data());
    return;
  }
  // Broadcast quantization is stateless (no error feedback possible — each
  // client must decode from this message alone) and always 8-bit.
  constexpr int kBits = 8;
  h.codec = CodecKind::kQuantDense;
  h.quant_bits = kBits;
  wire_detail::write_header(out, h);
  Writer w(out);
  static thread_local std::vector<float> scales;
  static thread_local std::vector<std::int8_t> quants;
  nn::block_quantize(weights.data(), dim, kBits, scales, quants);
  write_quantized(w, scales, quants, kBits);
  wire_detail::seal_message(out);
}

}  // namespace evfl::fl
