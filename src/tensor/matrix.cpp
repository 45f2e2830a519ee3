#include "tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#if defined(__AVX__)
#include <immintrin.h>
#endif

namespace evfl::tensor {

namespace {

void require_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (!a.same_shape(b)) {
    throw ShapeError(std::string(op) + ": shape mismatch " + a.shape_str() +
                     " vs " + b.shape_str());
  }
}

void require_view_shapes(ConstMatView c, std::size_t k_a, std::size_t k_b,
                         std::size_t m, std::size_t n, const char* op) {
  if (k_a != k_b || c.rows != m || c.cols != n) {
    throw ShapeError(std::string(op) + ": incompatible view shapes");
  }
}

}  // namespace

void MatView::set_zero() const {
  for (std::size_t r = 0; r < rows; ++r) {
    std::fill(row(r), row(r) + cols, 0.0f);
  }
}

MatView Matrix::col_block(std::size_t col_begin, std::size_t n_cols) {
  EVFL_REQUIRE(col_begin + n_cols <= cols_,
               "col_block out of range in " + shape_str());
  return {data() + col_begin, rows_, n_cols, cols_};
}

ConstMatView Matrix::col_block(std::size_t col_begin,
                               std::size_t n_cols) const {
  EVFL_REQUIRE(col_begin + n_cols <= cols_,
               "col_block out of range in " + shape_str());
  return {data() + col_begin, rows_, n_cols, cols_};
}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<float>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r == 0 ? 0 : rows.begin()->size();
  Matrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != c) {
      throw ShapeError("from_rows: ragged initializer");
    }
    std::size_t j = 0;
    for (float v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::row_vector(const std::vector<float>& values) {
  Matrix m(1, values.size());
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::col_vector(const std::vector<float>& values) {
  Matrix m(values.size(), 1);
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0f;
  return m;
}

float& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range in " + shape_str());
  }
  return (*this)(r, c);
}

float Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw ShapeError("Matrix::at out of range in " + shape_str());
  }
  return (*this)(r, c);
}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

Matrix& Matrix::operator+=(const Matrix& other) {
  require_same_shape(*this, other, "operator+=");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] += src[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  require_same_shape(*this, other, "operator-=");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] -= src[i];
  return *this;
}

Matrix& Matrix::operator*=(float s) {
  for (float& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::hadamard_inplace(const Matrix& other) {
  require_same_shape(*this, other, "hadamard");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] *= src[i];
  return *this;
}

Matrix& Matrix::axpy(float alpha, const Matrix& other) {
  require_same_shape(*this, other, "axpy");
  const float* src = other.data();
  float* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] += alpha * src[i];
  return *this;
}

Matrix& Matrix::add_row_broadcast(const Matrix& bias) {
  if (bias.rows() != 1 || bias.cols() != cols_) {
    throw ShapeError("add_row_broadcast: bias " + bias.shape_str() +
                     " does not broadcast over " + shape_str());
  }
  const float* b = bias.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    float* dst = row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += b[c];
  }
  return *this;
}

float Matrix::sum() const {
  // Pairwise-ish accumulation in double to keep long reductions accurate.
  double acc = 0.0;
  for (float v : data_) acc += v;
  return static_cast<float>(acc);
}

float Matrix::min() const {
  EVFL_ASSERT(!data_.empty(), "min of empty matrix");
  return *std::min_element(data_.begin(), data_.end());
}

float Matrix::max() const {
  EVFL_ASSERT(!data_.empty(), "max of empty matrix");
  return *std::max_element(data_.begin(), data_.end());
}

Matrix Matrix::col_sums() const {
  Matrix out(1, cols_);
  col_sums_into(out);
  return out;
}

void Matrix::col_sums_into(Matrix& out) const {
  if (out.rows() != 1 || out.cols() != cols_) out = Matrix(1, cols_);
  out.set_zero();
  float* dst = out.data();
  for (std::size_t r = 0; r < rows_; ++r) {
    const float* src = row(r);
    for (std::size_t c = 0; c < cols_; ++c) dst[c] += src[c];
  }
}

float Matrix::squared_norm() const {
  double acc = 0.0;
  for (float v : data_) acc += static_cast<double>(v) * v;
  return static_cast<float>(acc);
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      out(c, r) = (*this)(r, c);
    }
  }
  return out;
}

std::string Matrix::shape_str() const {
  std::ostringstream os;
  os << "[" << rows_ << " x " << cols_ << "]";
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, float s) { return a *= s; }
Matrix operator*(float s, Matrix a) { return a *= s; }
Matrix hadamard(Matrix a, const Matrix& b) { return a.hadamard_inplace(b); }

// ---- blocked GEMM kernels --------------------------------------------------
// matmul_acc and matmul_tn_acc share one register-blocked tile; matmul_nt
// keeps its own kernel (below).  Blocking tiles the *output* only: the k
// loop is never reordered or split, so each C element sees the exact
// accumulation sequence of the naive ikj loop — ascending k, one multiply-
// add per nonzero A element, a zero A element skipping its product — the
// determinism contract (DESIGN.md §8) that lets blocked, unblocked, and
// thread-partitioned runs produce bit-identical results.

namespace {
constexpr std::size_t kBlockI = 64;   // C rows per tile
constexpr std::size_t kBlockJ = 128;  // C cols per tile (512 B per row)

#if defined(__AVX2__)
// The AVX2 tile covers 4 C rows x 32 C columns (16 ymm accumulators held
// across the whole k loop), with 2- and 1-row and 8- and 1-column tails.
// The A operand is addressed as A_op(i, kk) = a[i * rs + kk * ks]: (stride,
// 1) for C += A·B, (1, stride) for C += Aᵀ·B.  B is read in place through
// its strided view.
//
// The seed skips the product of a zero A element, which is not a no-op:
// fma(0, inf, c) is NaN and -0 + 0 is +0.  A per-k test inside the tile
// costs a third of its speed, so the rows are pre-scanned instead: a row
// group whose A rows hold no exact zero (of either sign) runs the
// unchecked tile, and only the rest take the checked one.

constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileVecs = 4;  // 32 columns

/// c + a·b, fused on an FMA target: what the optimizer makes of the seed's
/// `c += a * b` under -ffp-contract=fast (GCC's default) at -O2 and up.
inline __m256 fmadd(__m256 a, __m256 b, __m256 c) {
#if defined(__FMA__)
  return _mm256_fmadd_ps(a, b, c);
#else
  return _mm256_add_ps(_mm256_mul_ps(a, b), c);
#endif
}

/// The scalar column tail's multiply-add, fused exactly when the vector
/// one is.
inline float fmadd(float a, float b, float c) {
#if defined(__FMA__)
  return std::fma(a, b, c);
#else
  return a * b + c;
#endif
}

/// One tile's operands: A_op(r, kk) = a[r * rs + kk * ks] for r < R and
/// kk < k, B row kk at b + kk * bs, C row r at c + r * cs.
struct Tile {
  const float* a;
  std::size_t rs, ks, k;
  const float* b;
  std::size_t bs;
  float* c;
  std::size_t cs;
};

/// C[0..R)[0..8V) += A_op · B, one ascending-k chain per element; V = 0
/// is the one-column tail in scalar registers.  kChecked skips the
/// products of zero A elements.
template <std::size_t R, std::size_t V, bool kChecked>
void gemm_tile(const Tile& t) {
  if constexpr (V == 0) {
    float acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = t.c[r * t.cs];
    for (std::size_t kk = 0; kk < t.k; ++kk) {
      const float bk = t.b[kk * t.bs];
      const float* ak = t.a + kk * t.ks;
      for (std::size_t r = 0; r < R; ++r) {
        const float av = ak[r * t.rs];
        if constexpr (kChecked) {
          if (av == 0.0f) continue;
        }
        acc[r] = fmadd(av, bk, acc[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) t.c[r * t.cs] = acc[r];
  } else {
    __m256 acc[R][V];
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        acc[r][v] = _mm256_loadu_ps(t.c + r * t.cs + 8 * v);
      }
    }
    for (std::size_t kk = 0; kk < t.k; ++kk) {
      const float* brow = t.b + kk * t.bs;
      __m256 bv[V];
      for (std::size_t v = 0; v < V; ++v) {
        bv[v] = _mm256_loadu_ps(brow + 8 * v);
      }
      const float* ak = t.a + kk * t.ks;
      for (std::size_t r = 0; r < R; ++r) {
        const float av = ak[r * t.rs];
        if constexpr (kChecked) {
          if (av == 0.0f) continue;
        }
        const __m256 ab = _mm256_set1_ps(av);
        for (std::size_t v = 0; v < V; ++v) {
          acc[r][v] = fmadd(ab, bv[v], acc[r][v]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t v = 0; v < V; ++v) {
        _mm256_storeu_ps(t.c + r * t.cs + 8 * v, acc[r][v]);
      }
    }
  }
}

/// True when p[0..n) holds an exact zero of either sign (NaN is not zero,
/// exactly as in the seed's `aik == 0.0f`).
bool any_zero(const float* p, std::size_t n) {
  const __m256 zero = _mm256_setzero_ps();
  __m256 hits = zero;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    hits = _mm256_or_ps(
        hits, _mm256_cmp_ps(_mm256_loadu_ps(p + i), zero, _CMP_EQ_OQ));
  }
  bool found = _mm256_movemask_ps(hits) != 0;
  for (; i < n; ++i) found |= p[i] == 0.0f;
  return found;
}

/// One row group of a row block: `rows` C rows from `row`, and whether
/// their A rows are free of exact zeros.
struct RowGroup {
  std::size_t row = 0;
  std::size_t rows = 0;
  bool zero_free = false;
};

template <std::size_t V, bool kChecked>
void gemm_group(std::size_t rows, const Tile& t) {
  switch (rows) {
    case 4: gemm_tile<4, V, kChecked>(t); break;
    case 2: gemm_tile<2, V, kChecked>(t); break;
    default: gemm_tile<1, V, kChecked>(t); break;
  }
}

/// Runs one group's tile at column j, 8V columns wide (V = 0: one column);
/// only groups that meet a zero A element take the checked body.
template <std::size_t V>
void gemm_group_at(const RowGroup& g, const float* a, std::size_t rs,
                   std::size_t ks, std::size_t k, ConstMatView b, MatView c,
                   std::size_t j) {
  const Tile t{a + g.row * rs, rs, ks, k, b.data + j, b.stride,
               c.row(g.row) + j, c.stride};
  if (g.zero_free) {
    gemm_group<V, false>(g.rows, t);
  } else {
    gemm_group<V, true>(g.rows, t);
  }
}

/// C rows [row_begin, row_end) += A_op · B over all n = b.cols columns,
/// A_op(i, kk) = a[i * rs + kk * ks] for kk < k.  `a_transposed` says
/// which of rs / ks is the unit stride, i.e. how to pre-scan for zeros.
void gemm_rows(const float* a, std::size_t rs, std::size_t ks, std::size_t k,
               bool a_transposed, ConstMatView b, MatView c,
               std::size_t row_begin, std::size_t row_end) {
  const std::size_t n = b.cols;
  RowGroup groups[kBlockI / kTileRows + 2];
  bool has_zero[kBlockI];
  for (std::size_t ib = row_begin; ib < row_end; ib += kBlockI) {
    const std::size_t iend = std::min(row_end, ib + kBlockI);
    const std::size_t m = iend - ib;
    // Pre-scan: which C rows of this block meet a zero A element.
    if (a_transposed) {
      std::fill(has_zero, has_zero + m, false);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* ak = a + kk * ks + ib;
        for (std::size_t i = 0; i < m; ++i) has_zero[i] |= ak[i] == 0.0f;
      }
    } else {
      for (std::size_t i = 0; i < m; ++i) {
        has_zero[i] = any_zero(a + (ib + i) * rs, k);
      }
    }
    // 4-row groups, then a 2-row and a 1-row tail.
    std::size_t ng = 0;
    for (std::size_t i = 0; i < m;) {
      const std::size_t r = m - i >= 4 ? 4 : m - i >= 2 ? 2 : 1;
      bool zero_free = true;
      for (std::size_t q = i; q < i + r; ++q) zero_free &= !has_zero[q];
      groups[ng++] = {ib + i, r, zero_free};
      i += r;
    }
    // Column tiles outermost, so a k x 32 slice of B stays in L1 while
    // every group of the block streams past it.
    std::size_t j = 0;
    for (; j + 8 * kTileVecs <= n; j += 8 * kTileVecs) {
      for (std::size_t g = 0; g < ng; ++g) {
        gemm_group_at<kTileVecs>(groups[g], a, rs, ks, k, b, c, j);
      }
    }
    for (; j + 8 <= n; j += 8) {
      for (std::size_t g = 0; g < ng; ++g) {
        gemm_group_at<1>(groups[g], a, rs, ks, k, b, c, j);
      }
    }
    for (; j < n; ++j) {
      for (std::size_t g = 0; g < ng; ++g) {
        gemm_group_at<0>(groups[g], a, rs, ks, k, b, c, j);
      }
    }
  }
}
#endif  // __AVX2__

}  // namespace

void matmul_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                     std::size_t row_begin, std::size_t row_end) {
#if defined(__AVX2__)
  gemm_rows(a.data, a.stride, 1, a.cols, /*a_transposed=*/false, b, c,
            row_begin, row_end);
#else
  const std::size_t k = a.cols, n = b.cols;
  for (std::size_t ib = row_begin; ib < row_end; ib += kBlockI) {
    const std::size_t iend = std::min(row_end, ib + kBlockI);
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jend = std::min(n, jb + kBlockJ);
      for (std::size_t i = ib; i < iend; ++i) {
        const float* arow = a.row(i);
        float* crow = c.row(i);
        for (std::size_t kk = 0; kk < k; ++kk) {
          const float aik = arow[kk];
          if (aik == 0.0f) continue;
          const float* brow = b.row(kk);
          for (std::size_t j = jb; j < jend; ++j) crow[j] += aik * brow[j];
        }
      }
    }
  }
#endif
}

void matmul_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                     std::size_t row_begin, std::size_t row_end) {
  matmul_acc_rows(a.view(), b.view(), c.view(), row_begin, row_end);
}

void matmul_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.cols, b.rows, a.rows, b.cols, "matmul");
  matmul_acc_rows(a, b, c, 0, a.rows);
}

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw ShapeError("matmul: incompatible shapes " + a.shape_str() + " · " +
                     b.shape_str() + " -> " + c.shape_str());
  }
  matmul_acc_rows(a, b, c, 0, a.rows());
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  matmul_acc(a, b, c);
  return c;
}

void matmul_tn_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                        std::size_t row_begin, std::size_t row_end) {
  // C[i,j] += sum_kk A[kk,i] * B[kk,j]: C row i reads A column i.
#if defined(__AVX2__)
  gemm_rows(a.data, 1, a.stride, a.rows, /*a_transposed=*/true, b, c,
            row_begin, row_end);
#else
  // kk runs outermost *within* each tile so A and B rows stream
  // contiguously; for a fixed (i,j) the kk accumulation is still
  // ascending.
  const std::size_t k = a.rows, n = b.cols;
  for (std::size_t ib = row_begin; ib < row_end; ib += kBlockI) {
    const std::size_t iend = std::min(row_end, ib + kBlockI);
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jend = std::min(n, jb + kBlockJ);
      for (std::size_t kk = 0; kk < k; ++kk) {
        const float* arow = a.row(kk);
        const float* brow = b.row(kk);
        for (std::size_t i = ib; i < iend; ++i) {
          const float aki = arow[i];
          if (aki == 0.0f) continue;
          float* crow = c.row(i);
          for (std::size_t j = jb; j < jend; ++j) crow[j] += aki * brow[j];
        }
      }
    }
  }
#endif
}

void matmul_tn_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                        std::size_t row_begin, std::size_t row_end) {
  matmul_tn_acc_rows(a.view(), b.view(), c.view(), row_begin, row_end);
}

void matmul_tn_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.rows, b.rows, a.cols, b.cols, "matmul_tn");
  matmul_tn_acc_rows(a, b, c, 0, a.cols);
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw ShapeError("matmul_tn: incompatible shapes " + a.shape_str() +
                     "ᵀ · " + b.shape_str() + " -> " + c.shape_str());
  }
  matmul_tn_acc_rows(a, b, c, 0, a.cols());
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  Matrix c(a.cols(), b.cols());
  matmul_tn_acc(a, b, c);
  return c;
}

void matmul_nt_acc_rows(ConstMatView a, ConstMatView b, MatView c,
                        std::size_t row_begin, std::size_t row_end) {
  // Each C element is a double-accumulated dot of two float rows — a
  // strictly serial dependency chain (~4-cycle add latency per element).
  // Independent chains hide that latency: process 8 output columns at
  // once, each with its own accumulator running its exact serial order.
  // The products stay float (only the running sum is double), matching the
  // one-column loop bit for bit.
  const std::size_t k = a.cols, n = b.rows;
  // Column-major pack of 8 B rows so the 8 chains load one contiguous
  // vector per k step; reused across every A row of the block.
  static thread_local std::vector<float> packed;
  if (n >= 8 && packed.size() < k * 8) packed.resize(k * 8);
  for (std::size_t ib = row_begin; ib < row_end; ib += kBlockI) {
    const std::size_t iend = std::min(row_end, ib + kBlockI);
    for (std::size_t jb = 0; jb < n; jb += kBlockJ) {
      const std::size_t jend = std::min(n, jb + kBlockJ);
      std::size_t j = jb;
      for (; j + 8 <= jend; j += 8) {
        for (std::size_t m = 0; m < 8; ++m) {
          const float* brow = b.row(j + m);
          for (std::size_t kk = 0; kk < k; ++kk) packed[kk * 8 + m] = brow[kk];
        }
        const float* bp = packed.data();
        for (std::size_t i = ib; i < iend; ++i) {
          const float* arow = a.row(i);
          float* crow = c.row(i);
#if defined(__AVX__)
          // Lane m runs column j+m's exact serial chain: IEEE float
          // multiply, exact widen to double, double add per k step.
          __m256d slo = _mm256_setzero_pd();
          __m256d shi = _mm256_setzero_pd();
          for (std::size_t kk = 0; kk < k; ++kk) {
            const __m256 prod = _mm256_mul_ps(_mm256_broadcast_ss(arow + kk),
                                              _mm256_loadu_ps(bp + kk * 8));
            slo = _mm256_add_pd(slo,
                                _mm256_cvtps_pd(_mm256_castps256_ps128(prod)));
            shi = _mm256_add_pd(shi,
                                _mm256_cvtps_pd(_mm256_extractf128_ps(prod, 1)));
          }
          double s[8];
          _mm256_storeu_pd(s, slo);
          _mm256_storeu_pd(s + 4, shi);
#else
          double s[8] = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0};
          for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = arow[kk];
            const float* col = bp + kk * 8;
            for (std::size_t m = 0; m < 8; ++m) s[m] += av * col[m];
          }
#endif
          for (std::size_t m = 0; m < 8; ++m) {
            crow[j + m] += static_cast<float>(s[m]);
          }
        }
      }
      for (; j < jend; ++j) {
        const float* brow = b.row(j);
        for (std::size_t i = ib; i < iend; ++i) {
          const float* arow = a.row(i);
          double acc = 0.0;
          for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
          c.row(i)[j] += static_cast<float>(acc);
        }
      }
    }
  }
}

void matmul_nt_acc_rows(const Matrix& a, const Matrix& b, Matrix& c,
                        std::size_t row_begin, std::size_t row_end) {
  matmul_nt_acc_rows(a.view(), b.view(), c.view(), row_begin, row_end);
}

void matmul_nt_acc(ConstMatView a, ConstMatView b, MatView c) {
  require_view_shapes(c, a.cols, b.cols, a.rows, b.rows, "matmul_nt");
  matmul_nt_acc_rows(a, b, c, 0, a.rows);
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c) {
  if (a.cols() != b.cols() || c.rows() != a.rows() || c.cols() != b.rows()) {
    throw ShapeError("matmul_nt: incompatible shapes " + a.shape_str() +
                     " · " + b.shape_str() + "ᵀ -> " + c.shape_str());
  }
  matmul_nt_acc_rows(a, b, c, 0, a.rows());
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.rows());
  matmul_nt_acc(a, b, c);
  return c;
}

bool bitwise_equal(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) && bitwise_equal(a.data(), b.data(), a.size());
}

float max_abs_diff(const Matrix& a, const Matrix& b) {
  require_same_shape(a, b, "max_abs_diff");
  float worst = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(pa[i] - pb[i]));
  }
  return worst;
}

}  // namespace evfl::tensor
